"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine holds one store per distinct Sampling key (family, level,
threshold), whose family is dropped at rate 0 or 1, laid out by a stream
engine's store layer.  The coordinator's engine lays out every machine of
a run, over the guesses the run can try: o_grid(n) for the run's n points
(StreamEngine with n_max = n), and the broadcast carries n beside the
configuration, so a machine lays out the same stores.  With either backing
a machine holds its shard in columns (coreset.PointColumns), hashes them
in one numpy pass per hashed (family, level) and groups the points a key
keeps into cells by one sort of their lattice keys
(partition.lattice_keys), each only where it needs them.  A sketch machine
ships one message per store, the blob of the store the shard streamed into
(cellstore.encode_sketch).  An exact machine ships each point and each
count at most once: first one point message (cellstore.encode_points), the
rows of the points that some store's light cells (count at most beta)
list, then per store its residual rows (cellstore.encode_exact): per cell,
the summed multiplicity of the key's points in it that the point message
does not hold, where nonzero.  A cell light on the machine lists all its
points, so only cells over beta have residual rows; once every row is
listed, no key is hashed or grouped and every store message is a header
and an empty section.  A layout with no store sends no message.

The coordinator is a stream engine fed by machine messages instead of
updates: it pairs the store messages with its own stores by position and
counts the machines' points as its net count.  A sketch message merges
into its store of that key (store merging is linear).  Exact messages stay
parsed (cellstore.parse_points, cellstore.parse_exact) until a read.  The
first read after the last absorb holds the union of the point messages in
columns (PointColumns.from_rows, multiplicities summed per point); a read
of a key takes the union's rows the key keeps, at the key's level, and its
machines' residual rows into one merge (cellstore.merge_exact).  That is
exact: a cell light in the union is light on every machine, whose residual
there is 0, so all its points are in the union; a cell over beta only
counts the union's points.  A light cell that a residual row counts has a
kept row missing from the point table, a usage error at the read.  It then
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

import numpy as np

from .common import UsageError, derive_seed, is_fail
from .coreset import PointColumns, Sampling
from .geometry import NO_TAG, TAG_SPACE, GridHierarchy
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
    copies counted as in every mode): a sketch message is encoded from its
    key's cells (cellstore.encode_sketch), an exact store message from the
    cells of the key's rows that the point message does not hold
    (cellstore.encode_exact)."""

    def __init__(self, shard, layout: StreamEngine):
        self.layout = layout
        self.local_n = len(shard)
        self._columns = PointColumns(shard, layout.sampling)

    def wire_messages(self):
        """Yield the machine's messages: with the exact backing its point
        message first, then each store's, in the layout's store order."""
        columns, stores = self._columns, self.layout._stores
        if self.layout.backing != "exact":
            for key, store in stores.items():
                yield cellstore.encode_sketch(store, columns,
                                              *columns.cells(key))
            return
        if not stores:
            return
        listed = self._listed()
        yield cellstore.encode_points(np.column_stack(
            (columns.coords[listed], columns.tags[listed],
             columns.mults[listed])))
        # once every row is listed, no key has a residual row
        every = listed.all()
        for key, store in stores.items():
            rows = np.empty(0, np.int64) if every else columns.rows(key)
            _, lattices, _, counts = columns.group(rows[~listed[rows]], key[1])
            yield cellstore.encode_exact(store,
                                         np.column_stack((lattices, counts)))

    def _listed(self):
        """Per row of the shard, whether some store's light cells list it:
        every row a store keeps when their count is at most its beta, else
        the rows of its cells of count at most beta.  A cell of a shard
        counts at least 1, so a store of beta below 1 lists none."""
        columns = self._columns
        listed = np.zeros(len(columns.points), dtype=bool)
        for key, store in self.layout._stores.items():
            if store.beta < 1 or listed.all():
                continue
            rows = columns.rows(key)
            if columns.mults[rows].sum() <= store.beta:
                listed[rows] = True
                continue
            rows, _, starts, counts = columns.group(rows, key[1])
            sizes = np.diff(np.append(starts, len(rows)))
            listed[rows[np.repeat(counts <= store.beta, sizes)]] = True
        return listed


class Coordinator(StreamEngine):
    """A stream engine fed by machine messages instead of updates.

    Sketch blobs merge into its stores as they arrive.  Exact messages stay
    parsed: each machine's point message (cellstore.parse_points) and, per
    Sampling key, each machine's store message (cellstore.ExactBlob).  A
    read merges the rows of the machines' point messages that the key keeps
    with its residual rows (cellstore.merge_exact), over one PointColumns
    of those messages built at the first read after the last absorb."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        exact = self.backing == "exact"
        # exact backing: each machine's point message rows, and per Sampling
        # key each machine's parsed store message
        self._points = [] if exact else None
        self._blobs = {key: [] for key in self._stores} if exact else None
        self._union = None  # PointColumns of self._points, until an absorb

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
            _check_point_rows(points, self.grid)
        if len(messages) != len(self._stores):
            raise UsageError(f"{len(messages)} store messages for "
                             f"{len(self._stores)} stores")
        if not exact:
            for store, blob in zip(self._stores.values(), messages):
                store.merge_in(cellstore.deserialize(blob, self.grid))
        elif messages:
            blobs = [cellstore.parse_exact(blob, self.grid)
                     for blob in messages]
            self._points.append(points)
            for parsed, blob in zip(self._blobs.values(), blobs):
                parsed.append(blob)
        self.net += machine.local_n
        self._data.clear()
        self._union = None

    def _read(self, key: tuple):
        if self._blobs is None:
            return super()._read(key)
        if self._union is None:
            self._union = PointColumns.from_rows(
                np.concatenate([np.empty((0, self.grid.d + 2), np.int64),
                                *self._points]), self.sampling)
        union, store = self._union, self._stores[key]
        rows = union.rows(key)
        data = cellstore.merge_exact(
            store, self._blobs[key], union.points, rows, union.mults[rows],
            self.grid.coarsen(union.lattices[rows], key[1]))
        if not is_fail(data):
            # a light cell lists points of as many copies as it counts
            # unless a residual row counts a point of it
            listed = np.append(0, np.cumsum(data.mults))[data.offsets]
            light = data.counts <= store.beta
            if (np.diff(listed)[light] != data.counts[light]).any():
                raise UsageError("an exact store message counts a kept row "
                                 "of a light cell missing from the point "
                                 "table")
        return data


def _check_point_rows(rows, grid: GridHierarchy):
    """A machine's point message holds points of the domain, each of at
    least one copy; else a usage error."""
    d = grid.d
    if len(rows) and not (
            (rows[:, :d] >= 1).all() and (rows[:, :d] <= grid.Delta).all()
            and (rows[:, d] >= NO_TAG).all()
            and (rows[:, d] <= TAG_SPACE - 2).all()
            and (rows[:, d + 1] >= 1).all()):
        raise UsageError("a machine's point message holds a point outside "
                         "the domain or of multiplicity below 1")


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
    them, a header and at most min(n, (2**level + 1)**d) residual rows of
    d + 1 values (cellstore.exact_blob_bound)."""
    d, Delta = grid.d, grid.Delta
    served = Sampling(params, grid, 0, exact_counts=False).served(o_values)
    total = len(broadcast_blob(params, grid, 0)) + 8 + 8
    if served:
        total += cellstore.points_blob_bound(d, Delta, n)
    for _, lvl, _ in served:
        total += cellstore.exact_blob_bound(
            d, Delta, min(n, (2 ** lvl + 1) ** d), n)
    return total
