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
(cellstore.encode_sketch).  An exact machine ships one message
(cellstore.encode_exact, laid out as the cellstore module states): its
point rows that some store's light cells list, and residual rows only for
cells over beta; once every row is listed, no key is hashed or grouped.  A
layout with no store sends no message.  No store's level, caps or seed
goes on the wire: the coordinator holds them in its layout.

The coordinator is a stream engine fed by machine messages instead of
updates: it pairs a machine's stores with its own by position and counts
the machines' points as its net count.  A sketch message merges into its
store of that key (store merging is linear).  An exact message is parsed
(cellstore.parse_exact) and checked at once: its store count is the
layout's, its point rows pass the range rule (geometry.outside_domain)
with multiplicities of at least 1, and each residual row counts a cell
over its store's beta on the machine (its listed rows the key keeps in
the cell plus the residual), as on an honest machine, whose cells of at
most beta list all their points.  It then stays parsed until a read.
The first read after the last absorb holds the union of the point rows
in columns (PointColumns.from_rows, multiplicities summed per point); a
read of a key takes the union's rows the key keeps, at the key's level,
and its machines' residual rows into one merge (cellstore.merge_exact).
That is exact: a cell light in the union is light on every machine,
whose residual there is 0, so all its points are in the union; a cell
over beta only counts the union's points.  It then finalizes like any
engine, the decision path applying each guess's caps.  A machine checks
no cap itself: a shard holds only insertions, so a merged store has every
cell of each machine's store of its key, and a guess over a cap on one
machine is over it on the merge.  A malformed message is a usage error
that leaves the coordinator as it was.
Transport is an in-process byte channel; the byte counters are the
communication cost.
"""

from __future__ import annotations

import struct

import numpy as np

from .common import UsageError, derive_seed
from .coreset import PointColumns, Sampling
from .geometry import GridHierarchy, outside_domain
from .params import Params
from .partition import sorted_runs
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
    """One machine: its shard in columns (coreset.PointColumns, copies
    counted as in every mode), sent at once as the messages of layout, the
    engine whose stores (Sampling keys in wire order, with their backing,
    pooled caps and seeds) they follow; the machine writes none of them."""

    def __init__(self, shard, layout: StreamEngine):
        self.layout = layout
        self.local_n = len(shard)
        self._columns = PointColumns(shard, layout.sampling)

    def wire_messages(self):
        """Yield the machine's messages: with the exact backing one, else
        one per store in the layout's store order."""
        columns, stores = self._columns, self.layout._stores
        if self.layout.backing != "exact":
            for key, store in stores.items():
                yield cellstore.encode_sketch(store, columns,
                                              *columns.cells(key))
            return
        if not stores:
            return
        listed = self._listed()
        residual = []
        # once every row is listed, no key has a residual row
        for position, key in enumerate(() if listed.all() else stores):
            rows = columns.rows(key)
            _, lattices, _, counts = columns.group(rows[~listed[rows]], key[1])
            residual.append(np.column_stack(
                (np.full(len(counts), position), lattices, counts)))
        yield cellstore.encode_exact(
            np.column_stack((columns.coords[listed], columns.tags[listed],
                             columns.mults[listed])),
            _stacked(residual, self.layout.grid.d + 2), len(stores))

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
    """A stream engine fed by machine messages instead of updates (the
    module docstring states how it reads them); process raises."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        exact = self.backing == "exact"
        # exact backing: each machine's point rows, and per Sampling key
        # each machine's residual rows (lattice, count)
        self._points = [] if exact else None
        self._residuals = {key: [] for key in self._stores} if exact else None
        self._union = None  # PointColumns of self._points, until an absorb

    def process(self, p, sign: int):
        """Machine messages are a coordinator's only input: updates raise."""
        raise UsageError("a coordinator takes machine messages, not stream "
                         "updates")

    def absorb(self, machine: "Machine", channel: ByteChannel):
        """Take in a machine laid out by this coordinator (else ValueError).
        A malformed exact message, a store count or a message count other
        than the layout's, a point row outside the domain
        (geometry.outside_domain) or of multiplicity below 1, or a residual
        row of a cell of at most its store's beta on the machine is a usage
        error that leaves the stores as they were."""
        if machine.layout is not self:
            raise ValueError("the machine is laid out by another engine")
        channel.send_to_coordinator(struct.pack("<q", machine.local_n))
        messages = [channel.send_to_coordinator(blob)
                    for blob in machine.wire_messages()]
        if self._points is None:
            if len(messages) != len(self._stores):
                raise UsageError(f"{len(messages)} store messages for "
                                 f"{len(self._stores)} stores")
            for store, blob in zip(self._stores.values(), messages):
                store.merge_in(cellstore.deserialize(blob, self.grid))
        elif messages or self._stores:
            if len(messages) != 1:
                raise UsageError(f"{len(messages)} exact messages from one "
                                 f"machine")
            blob = cellstore.parse_exact(messages[0], self.grid)
            if blob.stores != len(self._stores):
                raise UsageError(f"an exact message of {blob.stores} stores "
                                 f"for {len(self._stores)} stores")
            points, d = blob.points, self.grid.d
            if outside_domain(points[:, :d + 1], self.grid.Delta).any() or \
                    (points[:, d + 1] < 1).any():
                raise UsageError("a machine's point rows hold a point outside "
                                 "the domain or of multiplicity below 1")
            # the residual rows of each store position that has some
            parts = [part for part in np.split(
                blob.cells, np.flatnonzero(np.diff(blob.cells[:, 0])) + 1)
                if len(part)]
            self._check_residual_rows(points, parts)
            self._points.append(points)
            residuals = list(self._residuals.values())
            for part in parts:
                residuals[part[0, 0]].append(part[:, 1:])
        self.net += machine.local_n
        self._data.clear()
        self._union = None

    def _check_residual_rows(self, points, parts):
        """Each residual row of a machine's message counts a cell over its
        store's beta on the machine: the multiplicities of the machine's
        point rows that the store's key keeps in the cell, plus the
        residual; else a usage error.  parts are the residual rows of one
        store position each."""
        if not parts:
            return
        columns = PointColumns.from_rows(points, self.sampling)
        stores = list(self._stores.items())
        for part in parts:
            key, store = stores[part[0, 0]]
            _, lattices, _, counts = columns.cells(key)
            order, new = sorted_runs(np.concatenate((lattices,
                                                     part[:, 1:-1])))
            sums = np.add.reduceat(np.concatenate(
                (counts, part[:, -1]))[order], np.flatnonzero(new))
            # the cells of the residual rows
            cells = (np.cumsum(new) - 1)[order >= len(counts)]
            if (sums[cells] <= store.beta).any():
                raise UsageError("an exact machine's residual row counts a "
                                 "cell of at most its store's beta")

    def _read(self, key: tuple):
        if self._points is None:
            return super()._read(key)
        d = self.grid.d
        if self._union is None:
            self._union = PointColumns.from_rows(
                _stacked(self._points, d + 2), self.sampling)
        union, store = self._union, self._stores[key]
        rows = union.rows(key)
        return cellstore.merge_exact(
            store, _stacked(self._residuals[key], d + 1), union.points, rows,
            union.mults[rows], self.grid.lattices(union.coords[rows], key[1]))


def _stacked(arrays, width: int):
    """The rows of int64 arrays of width columns as one array, also of
    none."""
    return np.concatenate([np.empty((0, width), dtype=np.int64), *arrays])


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
    guesses o_values (sampled counts) lay out a store, one message of at
    most n point rows and, per distinct Sampling key of them, at most
    min(n, (2**level + 1)**d) residual rows (cellstore.machine_blob_bound)."""
    served = Sampling(params, grid, 0, exact_counts=False).served(o_values)
    total = len(broadcast_blob(params, grid, 0)) + 8 + 8
    if served:
        total += cellstore.machine_blob_bound(
            grid.d, grid.Delta, n,
            [(2 ** lvl + 1) ** grid.d for _, lvl, _ in served])
    return total
