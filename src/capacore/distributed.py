"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine runs the streaming engine's store layer over its shard, then
ships, per (guess, level, family), either the serialized store state or a
FAIL marker when its local nonempty-cell count exceeds the store's cap.  The
coordinator merges blobs (store merging is linear), marks a guess failed as
soon as any machine reported FAIL for one of its stores, and finalizes
without re-checking the cell cap on merged content, exactly as the protocol
prescribes.  Transport is an in-process byte channel; the byte counters are
the communication cost.
"""

from __future__ import annotations

import struct

from .common import FAIL, UsageError, derive_seed
from .coreset import search_o
from .geometry import GridHierarchy
from .params import FAMILIES, Params
from .streaming import StreamEngine
from . import cellstore


class ByteChannel:
    """Duplex in-process transport; counts every byte that crosses it."""

    def __init__(self):
        self.to_coordinator = 0
        self.to_machine = 0

    def send_to_machine(self, blob: bytes) -> bytes:
        self.to_machine += len(blob)
        return blob

    def send_to_coordinator(self, blob: bytes) -> bytes:
        self.to_coordinator += len(blob)
        return blob

    def total(self) -> int:
        return self.to_coordinator + self.to_machine


FAIL_MARKER = b"FAIL"


class Machine:
    def __init__(self, shard, params: Params, grid: GridHierarchy, seed: int,
                 backing: str, exact_counts: bool, n_max: int):
        self.engine = StreamEngine(params, grid, seed, backing=backing,
                                   exact_counts=exact_counts, n_max=n_max)
        for p in shard:
            self.engine.process(p, +1)
        self.local_n = len(shard)

    def wire_messages(self):
        """Yield (key, blob-or-FAIL) per (o, family, level) plus the local size."""
        eng = self.engine
        blob_cache: dict = {}
        for o in eng.o_values:
            for fam in FAMILIES:
                for lvl in eng._levels:
                    store = eng._stores[(o, fam, lvl)]
                    alpha, _ = eng.params.caps(fam, lvl, o)
                    if isinstance(store, cellstore.ExactCellStore) \
                            and len(store.counts) > alpha:
                        yield (o, fam, lvl), FAIL_MARKER
                        continue
                    blob = blob_cache.get(id(store))
                    if blob is None:
                        blob = blob_cache[id(store)] = store.serialize()
                    yield (o, fam, lvl), blob


class Coordinator:
    def __init__(self, params: Params, grid: GridHierarchy, seed: int,
                 backing: str, exact_counts: bool, n_max: int):
        # coordinator stores start empty and accumulate machine state; the
        # protocol does not re-check the cell cap on merged content
        self.engine = StreamEngine(params, grid, seed, backing=backing,
                                   exact_counts=exact_counts, n_max=n_max,
                                   check_store_alpha=False)
        self.failed_os: set = set()
        self.total_n = 0

    def absorb(self, machine: "Machine", channel: ByteChannel):
        self.total_n += machine.local_n
        channel.send_to_coordinator(struct.pack("<q", machine.local_n))
        merged_targets: set = set()
        for key, blob in machine.wire_messages():
            channel.send_to_coordinator(blob)
            if blob == FAIL_MARKER:
                self.failed_os.add(key[0])
                continue
            target = self.engine._stores[key]
            # pooled stores repeat across guesses; fold each pair once
            if id(target) in merged_targets:
                continue
            merged_targets.add(id(target))
            target.merge_in(cellstore.deserialize(bytes(blob), self.engine.grid))

    def finalize(self):
        eng = self.engine
        eng.net = self.total_n
        guesses = eng.candidates()
        if not guesses:
            return eng._empty_coreset()
        return search_o(guesses, lambda o: FAIL if o in self.failed_os
                        else eng.finalize_for_o(o))


def broadcast_blob(params: Params, grid: GridHierarchy, seed: int) -> bytes:
    cfg = params.serialize() + f" seed={seed}"
    shift = struct.pack(f"<{grid.d}q", *grid.shift_num)
    body = cfg.encode()
    return struct.pack("<I", len(body)) + body + shift


def run_protocol(shards, params: Params, seed: int, backing: str = "exact",
                 exact_counts: bool = False, n_max: int | None = None):
    """Simulate the s-machine protocol; returns (coreset | FAIL, comm_bytes)."""
    if not shards:
        raise UsageError("need at least one shard")
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), params.Delta, params.d)
    if n_max is None:
        n_max = max(grid.Delta ** grid.d, sum(len(s) for s in shards))
    channel = ByteChannel()
    bcast = broadcast_blob(params, grid, seed)
    coord = Coordinator(params, grid, seed, backing, exact_counts, n_max)
    for shard in shards:
        channel.send_to_machine(bcast)
        machine = Machine(shard, params, grid, seed, backing, exact_counts, n_max)
        coord.absorb(machine, channel)
    result = coord.finalize()
    return result, channel.total()


def per_machine_byte_cap(params: Params, grid: GridHierarchy, o_values) -> int:
    """Wire budget per machine: sum over stores of the cap-sized blob."""
    d = grid.d
    total = len(broadcast_blob(params, grid, 0)) + 8
    for o in o_values:
        for lvl in range(0, grid.L + 1):
            for fam in FAMILIES:
                alpha, beta = params.caps(fam, lvl, o)
                cells = int(min(alpha, (2 * grid.Delta) ** d))
                pts = int(min(alpha * beta, 10**12))
                total += 40 + cells * (8 * d + 8) + pts * (8 * d + 16)
    return total
