"""The benchmark's workloads and the seeded inputs they feed the program.

Every workload drives real sessions through ``Deployment.create`` →
``deployment.recovery_service`` → ``service.new_client(u)`` over the
default wire transport, at the reference shape of 12 HSMs and cluster 3.
A session is one ``backup`` followed by one ``recover`` with the right
PIN, except on ``backup_burst``, whose sessions are single backups.

Load is a closed loop: each client thread sends its next session only
after the previous one returned.  The service's own worker, lane and
ticker threads are the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

NUM_HSMS = 12
CLUSTER_SIZE = 3
#: Bloom capacity per HSM.  A segment stops at the paper's key-rotation
#: point (half of an HSM's Bloom slots deleted, ~12 punctures here), which
#: a run reaches only at about twice today's session rate, so no session
#: ever decrypts past the filter's sizing (see sessions.run_segment).
MAX_PUNCTURES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    shards: int
    durable: bool
    recover: bool
    #: one block of payload sizes; blocks are drawn until the run ends
    payload_sizes: Callable[[random.Random], List[int]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="recover_serial",
            why="one client, one log shard, no store: each recovery pays its own"
                " log epoch and HSM puncturing with nothing contending",
            threads=1,
            shards=1,
            durable=False,
            recover=True,
            payload_sizes=lambda rng: [rng.randint(32, 256)],
        ),
        Workload(
            name="recover_sharded_pair",
            why="two clients over two shard lanes with a durable store: queue"
                " contention, per-shard leases, lazy transition sync and WAL appends",
            threads=2,
            shards=2,
            durable=True,
            recover=True,
            payload_sizes=lambda rng: [rng.randint(32, 256)],
        ),
        Workload(
            name="backup_burst",
            why="backups only, durable, 32 B to 4 KiB payloads: client encryption,"
                " wire upload, escrow and WAL, never an HSM or a log epoch",
            threads=1,
            shards=1,
            durable=True,
            recover=False,
            # Each size once per block, in seeded order, so every seed
            # backs up the same mix and throughput does not move with it.
            payload_sizes=lambda rng: rng.sample((32, 1024, 4096), 3),
        ),
    )
}


@dataclass(frozen=True)
class SessionInput:
    index: int
    username: str
    pin: str
    payload: bytes


def session_inputs(workload: Workload, seed: int, stream: str) -> Iterator[SessionInput]:
    """The endless, seeded input sequence of one stream (``"warm"``,
    ``"timed"`` or ``"probe"``): the same ``(workload, seed, stream)`` always yields the
    same usernames, PINs and payloads."""
    rng = random.Random(f"perfbench|{workload.name}|{seed}|{stream}")
    index = 0
    while True:
        for size in workload.payload_sizes(rng):
            username = f"{stream}{index}-{rng.getrandbits(32):08x}"
            pin = f"{rng.randrange(10_000):04d}"
            yield SessionInput(index, username, pin, rng.randbytes(size))
            index += 1
