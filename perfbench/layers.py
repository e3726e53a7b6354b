"""Which entry points of each layer the traced run wraps, and the
per-layer metrics computed from the spans and counters it collects.

The layers are this repository's modules.  :class:`LayerProbe` installs
timing wrappers on their entry points (class and module attributes,
swapped for the traced segment and restored afterwards) plus four hooks
that carry trace context across threads:

- ``HsmWorkerPool.submit`` times each job's FIFO wait (submit to the
  start of its thunk) and runs the thunk in the submitter's context, so a
  device call made for a session or an epoch is attributed to it;
- ``DistributedLog.certify_round`` opens a numbered epoch context;
- ``EpochTicket.resolve`` / ``EpochTicket.wait`` map each session to the
  epoch that logged its attempt;
- ``HsmDevice.decrypt_share`` takes its session from
  ``DecryptShareRequest.username``.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from typing import Dict, List

from repro.core import client as client_module
from repro.core import wire
from repro.core.client import Client
from repro.core.lhe import LocationHidingEncryption
from repro.crypto.bfe import BloomFilterEncryption
from repro.crypto.ec import P256
from repro.hsm.costmodel import CostModel
from repro.hsm.device import HsmDevice
from repro.log.distributed import DistributedLog
from repro.service.batcher import EpochBatcher, EpochTicket
from repro.service.channel import ProviderChannel, WireProviderChannel
from repro.service.recovery import BatchedProviderFacade
from repro.service.workers import HsmWorkerPool, QueuedChannel
from repro.sim.workload import percentile
from repro.storage.securedel import SecureDeletionTree
from repro.storage.wal import WriteAheadLog

from spans import Tracer, children_of, self_time

#: (owner, attribute, span name) wrapped with a plain timing span.
PLAIN_SPANS = [
    (Client, "backup", "core.client.backup"),
    (Client, "recover", "core.client.recover"),
    (Client, "finish_recovery", "core.client.finish_recovery"),
    (LocationHidingEncryption, "encrypt", "core.lhe.encrypt"),
    (LocationHidingEncryption, "select", "core.lhe.select"),
    (LocationHidingEncryption, "context_for", "core.lhe.context_for"),
    (client_module, "commit_recovery", "crypto.commit.commit_recovery"),
    (type(P256), "keygen", "crypto.ec.keygen"),
    (QueuedChannel, "decrypt_share", "service.workers.call"),
    (EpochBatcher, "submit", "service.batcher.submit"),
    (EpochBatcher, "release", "service.batcher.release"),
    (BatchedProviderFacade, "prove_inclusion", "service.recovery.prove_inclusion"),
    (HsmDevice, "accept_log_digest", "hsm.device.accept_log_digest"),
    (HsmDevice, "accept_certified_transition", "hsm.device.accept_certified_transition"),
    (HsmDevice, "audit_log_update", "hsm.device.audit_log_update"),
    (HsmDevice, "audit_specific_chunks", "hsm.device.audit_specific_chunks"),
    (HsmDevice, "_sync_shard", "hsm.device.lazy_sync"),
    (BloomFilterEncryption, "decrypt", "crypto.bfe.decrypt"),
    (BloomFilterEncryption, "puncture", "crypto.bfe.puncture"),
    (SecureDeletionTree, "delete", "storage.securedel.delete"),
    (SecureDeletionTree, "setup", "storage.securedel.setup"),
    (DistributedLog, "run_update", "log.distributed.run_update"),
    (WriteAheadLog, "append", "storage.wal.append"),
]
#: Every provider RPC the client can make, on the default wire channel.
PLAIN_SPANS += [
    (WireProviderChannel, name, f"service.channel.{name}")
    for name, value in vars(ProviderChannel).items()
    if callable(value) and not name.startswith("_")
]
#: Every public codec function of the wire format (both legs).
PLAIN_SPANS += [
    (wire, name, "core.wire.codec")
    for name in sorted(vars(wire))
    if name.startswith(("encode_", "decode_")) and callable(getattr(wire, name))
]

WORKER_PREFIX = "service.workers"  # jobs on the per-HSM FIFOs
LANE_PREFIX = "service.lanes"  # jobs on the shard-lane FIFOs


class LayerProbe:
    """Installs the layer wrappers on a tracer and keeps the epoch map."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._device_pools: set = set()
        self._epoch_ids = itertools.count(1)
        self._last_epoch: Dict[int, int] = {}  # shard lane -> newest epoch id
        self._ticket_epoch: Dict[int, int] = {}  # id(ticket) -> epoch id
        #: session (username) -> id of the epoch that logged its attempt
        self.session_epochs: Dict[str, int] = {}

    def install(self) -> "LayerProbe":
        tracer = self.tracer
        for owner, attr, name in PLAIN_SPANS:
            tracer.wrap(owner, attr, name)
        tracer.wrap(HsmDevice, "decrypt_share", "hsm.device.decrypt_share",
                    session_of=lambda args: args[1].username)
        tracer.patch(HsmWorkerPool, "submit", self._submit)
        tracer.patch(DistributedLog, "certify_round", self._certify_round)
        tracer.patch(EpochTicket, "resolve", self._resolve)
        tracer.patch(EpochTicket, "wait", self._wait)
        return self

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def attach(self, service) -> None:
        """Tell device-FIFO jobs apart from shard-lane jobs."""
        self._device_pools.add(id(service.pool))

    # -- cross-thread hooks ----------------------------------------------------
    def _submit(self, submit):
        tracer = self.tracer
        clock = time.perf_counter

        def traced_submit(pool, index, thunk):
            captured = tracer.capture()
            prefix = WORKER_PREFIX if id(pool) in self._device_pools else LANE_PREFIX
            job = tracer.timed(prefix + ".job", thunk)
            queued = clock()

            def traced_thunk():
                tracer.record(prefix + ".queue", queued, clock(), *captured)
                with tracer.adopt(captured):
                    return job()

            return submit(pool, index, traced_thunk)

        return traced_submit

    def _certify_round(self, certify):
        tracer = self.tracer
        timed = tracer.timed("log.distributed.certify_round", certify)

        def traced_certify(log, round_, hsms):
            epoch = next(self._epoch_ids)
            self._last_epoch[round_.shard] = epoch
            with tracer.adopt(tracer.capture(), epoch=epoch):
                return timed(log, round_, hsms)

        return traced_certify

    def _resolve(self, resolve):
        def traced_resolve(ticket, result):
            shard = getattr(result[1], "shard", 0)  # sharded proofs name their lane
            self._ticket_epoch[id(ticket)] = self._last_epoch.get(shard)
            return resolve(ticket, result)

        return traced_resolve

    def _wait(self, wait):
        tracer = self.tracer
        timed = tracer.timed("service.batcher.epoch_wait", wait)

        def traced_wait(ticket, timeout=None):
            result = timed(ticket, timeout)
            epoch = self._ticket_epoch.pop(id(ticket), None)
            if epoch is not None and tracer.session is not None:
                self.session_epochs[tracer.session] = epoch
            return result

        return traced_wait


# -- per-layer metrics -------------------------------------------------------------
#: name -> (unit, better): every metric the traced run reports.
PER_LAYER = {
    "client.encrypt_ms": ("ms", "lower"),
    "client.encrypts_per_session": ("count", "lower"),
    "client.finish_ms": ("ms", "lower"),
    "wire.codec_ms_per_session": ("ms", "lower"),
    "wire.bytes_per_session": ("bytes", "lower"),
    "wire.frames_per_session": ("count", "lower"),
    "workers.queue_wait_p50_ms": ("ms", "lower"),
    "workers.queue_wait_p90_ms": ("ms", "lower"),
    "workers.jobs_per_session": ("count", "lower"),
    "batcher.epoch_wait_p50_ms": ("ms", "lower"),
    "batcher.epoch_wait_p90_ms": ("ms", "lower"),
    "batcher.submit_p90_ms": ("ms", "lower"),
    "batcher.release_p90_ms": ("ms", "lower"),
    "batcher.sessions_per_epoch": ("count", "higher"),
    "batcher.lease_timeouts": ("count", "lower"),
    "hsm.decrypt_share_ms": ("ms", "lower"),
    "hsm.epoch_accept_ms_per_epoch": ("ms", "lower"),
    "hsm.audit_ms_per_epoch": ("ms", "lower"),
    "hsm.lazy_sync_ms_per_session": ("ms", "lower"),
    "hsm.stale_proof_retries": ("count", "lower"),
    "bfe.decrypt_ms": ("ms", "lower"),
    "bfe.puncture_ms": ("ms", "lower"),
    "securedel.delete_ms": ("ms", "lower"),
    "securedel.setup_s": ("s", "lower"),
    "log.certify_round_ms": ("ms", "lower"),
    "log.epochs_per_session": ("count", "lower"),
    "log.epoch_rollbacks": ("count", "lower"),
    "wal.append_ms_per_session": ("ms", "lower"),
    "wal.appends_per_session": ("count", "lower"),
    "ops.ecdsa_verify_per_session": ("count", "lower"),
    "ops.aes_block_per_session": ("count", "lower"),
    "ops.ec_mult_per_session": ("count", "lower"),
    "ops.sha256_block_per_session": ("count", "lower"),
    "ops.modeled_device_s_per_session": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "higher"),
}


def modeled_device_seconds(counts: Dict[str, float]) -> float:
    """The SoloKey cost model applied to the ops it prices (``wal_records``
    and other bookkeeping counters have no device rate)."""
    model = CostModel()
    priced = {}
    for op, units in counts.items():
        try:
            model.seconds_per_op(op)
        except KeyError:
            continue
        priced[op] = units
    return model.breakdown(priced).total


def coverage(spans, op_name: str) -> List[float]:
    """For each ``op_name`` span, the share of its wall time that spans on
    its own thread (its children) cover."""
    kids = children_of(spans)
    return [
        1.0 - self_time(span, kids, same_thread=True) / span.duration
        for span in spans
        if span.name == op_name and span.duration > 0
    ]


def per_layer(traced, untraced_rate: float, traced_rate: float, recover: bool) -> Dict[str, float]:
    """Per-layer metrics from the traced segments (see ``PER_LAYER``)."""
    spans = [span for seg in traced for span in seg.spans]
    records = [r for seg in traced for r in seg.records]
    sessions = max(1, len(records))
    recoveries = max(1, sum(r.recover_s is not None for r in records))
    durations: Dict[str, List[float]] = defaultdict(list)
    errors: Counter = Counter()
    for span in spans:
        durations[span.name].append(span.duration * 1000.0)
        errors[span.name] += span.error

    def count(*names) -> int:
        return sum(len(durations[n]) for n in names)

    def total_ms(*names) -> float:
        return sum(sum(durations[n]) for n in names)

    def pct_ms(name: str, p: float) -> float:
        return percentile(durations[name], p) if durations[name] else 0.0

    codec_ms = 0.0
    cover: List[float] = []
    for seg in traced:  # span ids are unique within one segment's tracer
        by_id = {span.id: span for span in seg.spans}
        codec_ms += sum(
            span.duration * 1000.0
            for span in seg.spans
            if span.name == "core.wire.codec"
            and getattr(by_id.get(span.parent), "name", None) != "core.wire.codec"
        )
        cover += coverage(seg.spans, "core.client.recover" if recover else "core.client.backup")
    epochs = count("log.distributed.certify_round")
    stats = Counter()
    wire_delta = Counter()
    ops = Counter()
    device_ops = Counter()
    for seg in traced:
        stats.update(seg.stats_delta)
        wire_delta.update(seg.wire_delta)
        ops.update(seg.device_ops)
        ops.update(seg.client_ops)
        device_ops.update(seg.device_ops)
    setup_s = [
        sum(s.duration for s in seg.setup_spans if s.name == "storage.securedel.setup")
        for seg in traced
    ]
    return {
        "client.encrypt_ms": pct_ms("core.lhe.encrypt", 0.5),
        "client.encrypts_per_session": count("core.lhe.encrypt") / sessions,
        "client.finish_ms": pct_ms("core.client.finish_recovery", 0.5),
        "wire.codec_ms_per_session": codec_ms / sessions,
        "wire.bytes_per_session": (wire_delta["bytes_sent"] + wire_delta["bytes_received"]) / sessions,
        "wire.frames_per_session": wire_delta["frames_sent"] / sessions,
        "workers.queue_wait_p50_ms": pct_ms(WORKER_PREFIX + ".queue", 0.5),
        "workers.queue_wait_p90_ms": pct_ms(WORKER_PREFIX + ".queue", 0.9),
        "workers.jobs_per_session": count(WORKER_PREFIX + ".job") / sessions,
        "batcher.epoch_wait_p50_ms": pct_ms("service.batcher.epoch_wait", 0.5),
        "batcher.epoch_wait_p90_ms": pct_ms("service.batcher.epoch_wait", 0.9),
        "batcher.submit_p90_ms": pct_ms("service.batcher.submit", 0.9),
        "batcher.release_p90_ms": pct_ms("service.batcher.release", 0.9),
        "batcher.sessions_per_epoch": (
            stats["sessions_served"] / stats["epochs_run"] if stats["epochs_run"] else 0.0
        ),
        "batcher.lease_timeouts": stats["lease_timeouts"],
        "hsm.decrypt_share_ms": pct_ms("hsm.device.decrypt_share", 0.5),
        "hsm.epoch_accept_ms_per_epoch": (
            total_ms("hsm.device.accept_log_digest", "hsm.device.accept_certified_transition")
            / epochs if epochs else 0.0
        ),
        "hsm.audit_ms_per_epoch": (
            total_ms("hsm.device.audit_log_update", "hsm.device.audit_specific_chunks")
            / epochs if epochs else 0.0
        ),
        "hsm.lazy_sync_ms_per_session": total_ms("hsm.device.lazy_sync") / sessions,
        "hsm.stale_proof_retries": count("service.recovery.prove_inclusion") / recoveries,
        "bfe.decrypt_ms": pct_ms("crypto.bfe.decrypt", 0.5),
        "bfe.puncture_ms": pct_ms("crypto.bfe.puncture", 0.5),
        "securedel.delete_ms": pct_ms("storage.securedel.delete", 0.5),
        "securedel.setup_s": percentile(setup_s, 0.5) if setup_s else 0.0,
        "log.certify_round_ms": pct_ms("log.distributed.certify_round", 0.5),
        "log.epochs_per_session": epochs / sessions,
        "log.epoch_rollbacks": errors["log.distributed.run_update"],
        "wal.append_ms_per_session": total_ms("storage.wal.append") / sessions,
        "wal.appends_per_session": count("storage.wal.append") / sessions,
        "ops.ecdsa_verify_per_session": ops["ecdsa_verify"] / sessions,
        "ops.aes_block_per_session": ops["aes_block"] / sessions,
        "ops.ec_mult_per_session": ops["ec_mult"] / sessions,
        "ops.sha256_block_per_session": ops["sha256_block"] / sessions,
        "ops.modeled_device_s_per_session": modeled_device_seconds(device_ops) / sessions,
        "trace.coverage": percentile(cover, 0.5) if cover else 0.0,
        "trace.overhead": traced_rate / untraced_rate if untraced_rate else 0.0,
    }


def span_table(traced) -> List[str]:
    """Calls, inclusive and self milliseconds per session for every span name."""
    sessions = max(1, sum(len(seg.records) for seg in traced))
    rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for seg in traced:
        kids = children_of(seg.spans)
        for span in seg.spans:
            row = rows[span.name]
            row[0] += 1
            row[1] += span.duration * 1000.0
            row[2] += self_time(span, kids) * 1000.0
    lines = [f"  {'span':44s} {'calls/sess':>10s} {'ms/sess':>9s} {'self ms/sess':>12s}"]
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {name:44s} {calls / sessions:10.2f} {total / sessions:9.2f} {own / sessions:12.2f}")
    return lines


