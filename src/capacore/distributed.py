"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine holds one store per distinct Sampling key (family, level,
threshold), whose family is dropped at rate 0 or 1, laid out by a stream
engine's store layer, and ships one message per store: the store's
serialized state, in the layout's store order.  The coordinator's engine
lays out every machine of a run, over the guesses the run can try:
o_grid(n) for the run's n points (StreamEngine with n_max = n), and the
broadcast carries n beside the configuration, so a machine lays out the
same stores.  With either backing a machine holds its
shard in columns (coreset.PointColumns), hashes them in one numpy pass per
hashed (family, level), groups the points each key keeps into cells by one
sort of their lattice keys (partition.lattice_keys) and encodes each blob
from them (cellstore.encode_rows), the blob of the store the shard
streamed into.

The coordinator is a stream engine fed by machine messages instead of
updates: it pairs the messages with its own stores by position and counts
the machines' points as its net count.  A sketch message merges into its
store of that key (store merging is linear).  An exact message stays
parsed (cellstore.parse_exact) until a read, which merges the key's
messages in columns (cellstore.merge_exact) with one Point per distinct
point of the run (cellstore.point_table, built at the first read after
the last absorb); that equals merging the deserialized stores and
finalizing.  It then finalizes like any engine: the decision path applies
each guess's caps to the merged content, as it does in every mode.  A
machine checks no cap itself: a shard holds only insertions, so a merged
store has every cell of each machine's store of its key, and a guess over
a cap on one machine is over it on the merge.
Transport is an in-process byte channel; the byte counters are the
communication cost.
"""

from __future__ import annotations

import struct

from .common import UsageError, derive_seed
from .coreset import PointColumns, Sampling
from .geometry import GridHierarchy
from .params import Params
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


class Machine:
    """One machine: its shard's content per store, sent once per store.

    layout is the engine whose stores (Sampling keys in wire order, with
    their backing, pooled caps and seeds) the blobs follow; the machine
    writes none of them.  The shard sits in columns (coreset.PointColumns,
    copies counted as in every mode), and each blob is encoded from its
    key's cells (cellstore.encode_rows)."""

    def __init__(self, shard, layout: StreamEngine):
        self.layout = layout
        self.local_n = len(shard)
        self._columns = PointColumns(shard, layout.sampling)

    def wire_messages(self):
        """Yield each store's blob, in the layout's store order."""
        columns = self._columns
        for key, store in self.layout._stores.items():
            yield cellstore.encode_rows(store, columns, *columns.cells(key))


class Coordinator(StreamEngine):
    """A stream engine fed by machine messages instead of updates.

    Sketch blobs merge into its stores as they arrive.  Exact blobs stay
    parsed (cellstore.ExactBlob) per Sampling key, and a read merges a key's
    blobs in columns (cellstore.merge_exact) with the light points taken
    from one point table, built at the first read after the last absorb."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Sampling key -> the parsed blob of each machine, exact backing
        self._blobs = {key: [] for key in self._stores} \
            if self.backing == "exact" else None
        self._table = None  # (points, key -> ids per blob), until an absorb

    def absorb(self, machine: "Machine", channel: ByteChannel):
        """Take in a machine laid out by this coordinator (else ValueError)."""
        if machine.layout is not self:
            raise ValueError("the machine is laid out by another engine")
        self.net += machine.local_n
        self._data.clear()
        self._table = None
        channel.send_to_coordinator(struct.pack("<q", machine.local_n))
        for (key, store), blob in zip(self._stores.items(),
                                      machine.wire_messages()):
            blob = channel.send_to_coordinator(blob)
            if self._blobs is None:
                store.merge_in(cellstore.deserialize(blob, self.grid))
            else:
                self._blobs[key].append(cellstore.parse_exact(blob, self.grid))

    def _read(self, key: tuple):
        if self._blobs is None:
            return super()._read(key)
        if self._table is None:
            points, ids = cellstore.point_table(
                [b for blobs in self._blobs.values() for b in blobs],
                self.grid.d)
            ids = iter(ids)
            self._table = points, {key: [next(ids) for _ in blobs]
                                   for key, blobs in self._blobs.items()}
        points, ids = self._table
        return cellstore.merge_exact(self._stores[key], self._blobs[key],
                                     ids[key], points)


def broadcast_blob(params: Params, grid: GridHierarchy, seed: int) -> bytes:
    """The configuration and the shift's integer lattice offsets
    (GridHierarchy.off), all a machine needs to place integer points in
    cells; they fit int64 for every Delta <= 2**62."""
    cfg = params.serialize() + f" seed={seed}"
    shift = struct.pack(f"<{grid.d}q", *grid.off)
    body = cfg.encode()
    return struct.pack("<I", len(body)) + body + shift


def run_protocol(shards, params: Params, seed: int, backing: str = "exact",
                 exact_counts: bool = False):
    """Simulate the s-machine protocol; returns (coreset, comm_bytes), or
    raises RuntimeError when every guess FAILs (coreset.search_o).  Shards
    without a point give the empty coreset."""
    if not shards:
        raise UsageError("need at least one shard")
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), params.Delta, params.d)
    n = sum(len(s) for s in shards)
    channel = ByteChannel()
    bcast = broadcast_blob(params, grid, seed) + struct.pack("<q", n)
    coord = Coordinator(params, grid, seed, backing, exact_counts, n_max=n)
    for shard in shards:
        channel.send_to_machine(bcast)
        coord.absorb(Machine(shard, coord), channel)
    return coord.finalize(), channel.total()


def per_machine_byte_cap(params: Params, grid: GridHierarchy, o_values,
                         n: int) -> int:
    """Wire budget of one machine holding at most n points, exact backing.

    The broadcast with the run's point count and the shard size, then one
    message per distinct Sampling key of the guesses o_values (sampled
    counts): an exact blob of at most min(n, (2**level + 1)**d) cells and n
    points."""
    d = grid.d
    served = Sampling(params, grid, 0, exact_counts=False).served(o_values)
    total = len(broadcast_blob(params, grid, 0)) + 8 + 8
    for _, lvl, _ in served:
        total += cellstore.exact_blob_bound(d, min(n, (2 ** lvl + 1) ** d), n)
    return total
