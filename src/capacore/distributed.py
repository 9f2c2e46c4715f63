"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine holds one store per distinct Sampling key (family, level,
threshold), whose family is dropped at rate 0 or 1, laid out by a stream
engine's store layer, and ships one message per store: the store's
serialized state, in the layout's store order.  A sketch-backed machine
streams its shard into its stores.  An exact-backed machine does not: it
holds its shard in columns (coreset.PointColumns), groups the points each
key keeps into cells by one lexsort, and encodes the store's blob from
those sorted arrays with the one exact encoder (cellstore.encode_exact),
byte for byte the blob of the store the shard would have streamed into.

The coordinator is a stream engine fed by merges instead of updates: it
pairs the messages with its own stores by position, merges each state once
into its store of that key (store merging is linear) and counts the
machines' points as its net count.  It then finalizes like any engine: the
decision path applies each guess's caps to the merged content, as it does
in every mode.  A machine checks no cap itself: a shard holds only
insertions, so a merged store has every cell of each machine's store of
its key, and a guess over a cap on one machine is over it on the merge.
Transport is an in-process byte channel; the byte counters are the
communication cost.
"""

from __future__ import annotations

import struct

import numpy as np

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

    The machine's engine gives the store layout (the Sampling keys and
    their stores in wire order, with the stores' pooled caps and seeds).  A
    sketch-backed machine streams its shard into the engine's stores.  An
    exact-backed one leaves them empty: it holds the shard in columns
    (coreset.PointColumns, where a point listed twice has multiplicity 2)
    and encodes each store's blob straight from the key's cells, the blob
    that streaming the shard into the store and serializing it gives."""

    def __init__(self, shard, params: Params, grid: GridHierarchy, seed: int,
                 backing: str, exact_counts: bool, n_max: int):
        self.engine = StreamEngine(params, grid, seed, backing=backing,
                                   exact_counts=exact_counts, n_max=n_max)
        self.local_n = len(shard)
        if backing == "exact":
            self._columns = PointColumns(shard, self.engine.sampling,
                                         multiplicities=True)
        else:
            self._columns = None
            for p in shard:
                self.engine.process(p, +1)

    def _encode(self, store, rows, lat, starts) -> bytes:
        """The blob of store holding the shard rows given in cell order,
        with their lattices at the store's level and the cells' starts."""
        cols = self._columns
        mults = cols.mults[rows]
        counts = np.add.reduceat(mults, starts) if len(rows) else mults
        return cellstore.encode_exact(
            store, lat[starts], counts, np.diff(np.append(starts, len(rows))),
            np.column_stack((cols.coords(rows), cols.tags[rows], mults)))

    def wire_messages(self):
        """Yield each store's blob, in the engine's store order."""
        for key, store in self.engine._stores.items():
            if self._columns is None:
                yield store.serialize()
            else:
                yield self._encode(store, *self._columns.cells(key))


class Coordinator(StreamEngine):
    """A stream engine whose stores start empty and absorb machine state."""

    def absorb(self, machine: "Machine", channel: ByteChannel):
        self.net += machine.local_n
        self._data.clear()
        channel.send_to_coordinator(struct.pack("<q", machine.local_n))
        for store, blob in zip(self._stores.values(), machine.wire_messages(),
                               strict=True):
            blob = channel.send_to_coordinator(blob)
            store.merge_in(cellstore.deserialize(blob, self.grid))


def broadcast_blob(params: Params, grid: GridHierarchy, seed: int) -> bytes:
    """The configuration and the shift's integer lattice offsets
    (GridHierarchy.off), all a machine needs to place integer points in
    cells; they fit int64 for every Delta <= 2**62."""
    cfg = params.serialize() + f" seed={seed}"
    shift = struct.pack(f"<{grid.d}q", *grid.off)
    body = cfg.encode()
    return struct.pack("<I", len(body)) + body + shift


def run_protocol(shards, params: Params, seed: int, backing: str = "exact",
                 exact_counts: bool = False, n_max: int | None = None):
    """Simulate the s-machine protocol; returns (coreset, comm_bytes), or
    raises RuntimeError when every guess FAILs (coreset.search_o)."""
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
    return coord.finalize(), channel.total()


def per_machine_byte_cap(params: Params, grid: GridHierarchy, o_values,
                         n: int) -> int:
    """Wire budget of one machine holding at most n points, exact backing.

    The broadcast and the shard size, then one message per distinct Sampling
    key (sampled counts): an exact blob of at most min(n, (2**level + 1)**d)
    cells and n points."""
    d = grid.d
    served = Sampling(params, grid, 0, exact_counts=False).served(o_values)
    total = len(broadcast_blob(params, grid, 0)) + 8
    for _, lvl, _ in served:
        cells = min(n, (2 ** lvl + 1) ** d)
        total += 42 + cells * (16 * d + 12) + n * (8 * d + 16)
    return total
