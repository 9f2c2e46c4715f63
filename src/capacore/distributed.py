"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine holds one store per distinct Sampling key (family, level,
threshold), whose family is dropped at rate 0 or 1, laid out by a stream
engine's store layer.  The coordinator's engine lays out every machine of
a run, over the guesses the run can try: o_grid(n) for the run's n points
(StreamEngine with n_max = n), and the broadcast carries n beside the
configuration, so a machine lays out the same stores.  With either backing
a machine holds its shard in columns (coreset.PointColumns), hashes them
in one numpy pass per hashed (family, level) and groups the points each
key keeps into cells by one sort of their lattice keys
(partition.lattice_keys).  A sketch machine ships one message per store,
the blob of the store the shard streamed into (cellstore.encode_sketch).
An exact machine ships each point at most once (cellstore.encode_exact_shard):
first one point message, the rows of the points that some store's light
cells list, then per store its cell rows and those points' row numbers in
the point message, each section at the width its values need.  A layout
with no store sends no message.

The coordinator is a stream engine fed by machine messages instead of
updates: it pairs the store messages with its own stores by position and
counts the machines' points as its net count.  A sketch message merges
into its store of that key (store merging is linear).  Exact messages stay
parsed (cellstore.parse_points, cellstore.parse_exact) until a read, which
merges the key's messages in columns (cellstore.merge_exact) with one
Point per distinct point of the run (cellstore.point_table over the
machines' point messages, built at the first read after the last absorb);
that equals merging the deserialized stores and finalizing.  It then
finalizes like any engine: the decision path applies each guess's caps to
the merged content, as it does in every mode.  A machine checks no cap
itself: a shard holds only insertions, so a merged store has every cell of
each machine's store of its key, and a guess over a cap on one machine is
over it on the merge.  A malformed message is a usage error.
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
    their backing, pooled caps and seeds) the messages follow; the machine
    writes none of them.  The shard sits in columns (coreset.PointColumns,
    copies counted as in every mode), and each message is encoded from the
    keys' cells (cellstore.encode_exact_shard, cellstore.encode_sketch)."""

    def __init__(self, shard, layout: StreamEngine):
        self.layout = layout
        self.local_n = len(shard)
        self._columns = PointColumns(shard, layout.sampling)

    def wire_messages(self):
        """Yield the machine's messages: with the exact backing its point
        message first, then each store's, in the layout's store order."""
        columns, stores = self._columns, self.layout._stores
        if self.layout.backing == "exact":
            yield from cellstore.encode_exact_shard(
                columns.coords, columns.tags, columns.mults,
                [(store, *columns.cells(key)) for key, store in stores.items()])
            return
        for key, store in stores.items():
            yield cellstore.encode_sketch(store, columns, *columns.cells(key))


class Coordinator(StreamEngine):
    """A stream engine fed by machine messages instead of updates.

    Sketch blobs merge into its stores as they arrive.  Exact messages stay
    parsed: each machine's point message (cellstore.parse_points) and, per
    Sampling key, each machine's store message (cellstore.ExactBlob).  A
    read merges a key's messages in columns (cellstore.merge_exact) with
    their points taken from one point table over the point messages, built
    at the first read after the last absorb."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        exact = self.backing == "exact"
        # exact backing: each machine's point message rows, and per Sampling
        # key each machine's parsed store message
        self._points = [] if exact else None
        self._blobs = {key: [] for key in self._stores} if exact else None
        self._table = None  # point_table of self._points, until an absorb

    def absorb(self, machine: "Machine", channel: ByteChannel):
        """Take in a machine laid out by this coordinator (else ValueError).
        A malformed exact message, or a message count other than the
        layout's, is a usage error that leaves the stores as they were."""
        if machine.layout is not self:
            raise ValueError("the machine is laid out by another engine")
        channel.send_to_coordinator(struct.pack("<q", machine.local_n))
        messages = [channel.send_to_coordinator(blob)
                    for blob in machine.wire_messages()]
        exact = self._blobs is not None
        if exact and messages:
            points = cellstore.parse_points(messages.pop(0), self.grid)
        if len(messages) != len(self._stores):
            raise UsageError(f"{len(messages)} store messages for "
                             f"{len(self._stores)} stores")
        if not exact:
            for store, blob in zip(self._stores.values(), messages):
                store.merge_in(cellstore.deserialize(blob, self.grid))
        elif messages:
            blobs = [cellstore.parse_exact(blob, self.grid, len(points))
                     for blob in messages]
            self._points.append(points)
            for parsed, blob in zip(self._blobs.values(), blobs):
                parsed.append(blob)
        self.net += machine.local_n
        self._data.clear()
        self._table = None

    def _read(self, key: tuple):
        if self._blobs is None:
            return super()._read(key)
        if self._table is None:
            self._table = cellstore.point_table(self._points, self.grid.d)
        points, tables = self._table
        # every machine sends one message per key: blob m is machine m's
        return cellstore.merge_exact(self._stores[key], self._blobs[key],
                                     tables, points)


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

    The broadcast with the run's point count and the shard size; when the
    guesses o_values (sampled counts) lay out a store, one point message of
    at most n rows; then one store message per distinct Sampling key of
    them, of at most min(n, (2**level + 1)**d) cells and n row numbers."""
    d, Delta = grid.d, grid.Delta
    served = Sampling(params, grid, 0, exact_counts=False).served(o_values)
    total = len(broadcast_blob(params, grid, 0)) + 8 + 8
    if served:
        total += cellstore.points_blob_bound(d, Delta, n)
    for _, lvl, _ in served:
        total += cellstore.exact_blob_bound(
            d, Delta, min(n, (2 ** lvl + 1) ** d), n)
    return total
